"""The Bismarck stand-in: an epoch-driving front-end over the mini engine.

Figure 1 of the paper shows the architecture this module reproduces:

* the dataset lives in a table; a *shuffle* stage permutes it once;
* each epoch runs the SGD UDA over the shuffled table via an SQL query,
  which the engine evaluates as one chunked scan;
* a Python front-end controller issues the per-epoch queries and applies
  the convergence test;
* **(B)** the bolt-on algorithms add noise once, in the *front end*, after
  all epochs — :meth:`BismarckSession.run_bolton_private` is deliberately
  written as the handful of controller lines the paper describes
  ("about 10 LOC in Python");
* **(C)** SCS13 and BST14 need noise inside the UDA's *transition*
  function — :class:`NoisySGDUDA` is that modification, and
  :func:`integration_report` quantifies the contrast. Both take their
  parameters from the rules of :mod:`repro.baselines`, as in memory.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.baselines.bst14 import bst14_rule
from repro.baselines.scs13 import scs13_rule
from repro.core.bolton import BoltOnCandidate
from repro.core.mechanisms import (
    PrivacyParameters,
    mechanism_for,
)
from repro.core.sensitivity import sensitivity_for_schedule
from repro.optim.losses import Loss
from repro.optim.projection import Projection
from repro.optim.schedules import StepSizeSchedule
from repro.rdbms.catalog import Catalog, TableInfo
from repro.rdbms.cost_model import CostModel, RuntimeBreakdown, WorkCounters
from repro.rdbms.executor import DEFAULT_CHUNK_SIZE, ShuffleOnce, run_aggregate
from repro.rdbms.storage import BufferPool
from repro.rdbms.uda import MultiSGDUDA, SGDState, SGDUDA
from repro.utils.rng import RandomState, as_generator, spawn_generators
from repro.utils.validation import check_positive_int


@dataclass
class EpochReport:
    """Counters and simulated cost of one epoch."""

    epoch: int
    loss_value: Optional[float]
    runtime: RuntimeBreakdown


@dataclass
class TrainingReport:
    """The outcome of an in-RDBMS training run."""

    model: np.ndarray
    epochs: List[EpochReport] = field(default_factory=list)
    converged_early: bool = False
    algorithm: str = "noiseless"
    noise_draws: int = 0

    @property
    def total_runtime(self) -> RuntimeBreakdown:
        total = RuntimeBreakdown()
        for epoch in self.epochs:
            total = total + epoch.runtime
        return total

    @property
    def simulated_seconds(self) -> float:
        return self.total_runtime.total


@dataclass
class MultiTrainingReport:
    """The outcome of one fused K-model in-RDBMS training run.

    ``models`` is the ``(K, d)`` matrix of trained models. The per-epoch
    runtime reports charge the scan — tuples streamed, pages requested,
    shuffle work — **once**, while gradient/update work is charged
    K-fold; contrast with K separate :class:`TrainingReport` runs, whose
    totals repeat the scan K times. That difference is exactly the
    shared-scan amortization the cost model quantifies.
    """

    models: np.ndarray
    epochs: List[EpochReport] = field(default_factory=list)
    algorithm: str = "noiseless-multi"

    @property
    def num_models(self) -> int:
        return int(self.models.shape[0])

    @property
    def total_runtime(self) -> RuntimeBreakdown:
        total = RuntimeBreakdown()
        for epoch in self.epochs:
            total = total + epoch.runtime
        return total

    @property
    def simulated_seconds(self) -> float:
        return self.total_runtime.total


class NoisySGDUDA(SGDUDA):
    """The white-box modification: per-mini-batch noise in ``transition``.

    This class *is* the "dozens of LOC in C" change of Figure 1 (C),
    expressed in our substrate: a subclass whose only difference is drawing
    a noise vector for every completed mini-batch. ``noise_sampler`` is
    ``(step_index, dimension) -> vector`` and each call is also what the
    cost model charges as an expensive sophisticated-distribution draw.
    """

    def __init__(
        self,
        loss: Loss,
        schedule: StepSizeSchedule,
        noise_sampler: Callable[[int, int], np.ndarray],
        batch_size: int = 1,
        projection: Optional[Projection] = None,
    ):
        super().__init__(loss, schedule, batch_size, projection)
        self.noise_sampler = noise_sampler
        self.noise_draws = 0

    def _adjust_gradient(self, state: SGDState, gradient: np.ndarray) -> np.ndarray:
        self.noise_draws += 1
        return gradient + self.noise_sampler(state.next_step_index, gradient.shape[0])


class BismarckSession:
    """A connection to the miniature analytics engine.

    Owns the catalog, buffer pool, and cost model; exposes the training
    entry points the paper's experiments call.
    """

    def __init__(self, buffer_pool_pages: int = 65536):
        self.catalog = Catalog()
        self.pool = BufferPool(buffer_pool_pages)
        self.cost_model = CostModel()
        # Per-table ShuffleOnce operators kept alive across training runs
        # (see shared_scan): the session-reuse hook the training service
        # relies on so every job on a table replays ONE permutation.
        # Creation is locked: with per-table engine domains, workers
        # reach here concurrently for different tables.
        self._shared_scans: dict[str, ShuffleOnce] = {}
        self._shared_scans_lock = threading.Lock()

    # -- data loading -----------------------------------------------------------

    def load_table(self, name: str, features: np.ndarray, labels: np.ndarray) -> TableInfo:
        """CREATE TABLE + COPY: materialize arrays as a table."""
        return self.catalog.create_table_from_arrays(name, features, labels)

    def register_table(self, name: str, heap) -> TableInfo:
        """Register an existing heap file (e.g. a synthesized virtual one)."""
        return self.catalog.create_table(name, heap)

    def table_stats(self) -> dict:
        """Per-table buffer-pool counters, keyed by table name.

        A live read of each registered heap's own
        :class:`~repro.rdbms.storage.BufferPoolStats` (via
        :meth:`BufferPool.stats_for`) — the ground truth the service's
        metrics collector samples into its per-table pool gauges.
        """
        return {
            name: self.pool.stats_for(self.catalog.get(name).heap)
            for name in self.catalog.table_names()
        }

    def warm_cache(self, table_name: str) -> None:
        """Pre-read a table through the buffer pool.

        The paper's runtime measurements are "the average of 4 warm-cache
        runs [where] all datasets fit in the buffer cache" (Section 4.4);
        calling this before timing reproduces that methodology so the
        first-measured algorithm is not charged the one-off cold misses.
        """
        table = self.catalog.get(table_name)
        for _ in self.pool.scan(table.heap):
            pass

    def shared_scan(
        self,
        table_name: str,
        random_state: RandomState | Callable[[], RandomState] = None,
    ) -> ShuffleOnce:
        """Get-or-create the table's *persistent* shuffle operator.

        Bismarck materializes a shuffled copy of each table once and
        replays it for every epoch; this extends that discipline across
        *runs*: the first caller fixes the table's permutation (drawn from
        ``random_state``, which is read only when the operator is created;
        a zero-argument callable returning it is called only then, so a
        seed that is costly to build is built once per operator) and every
        later training run on the table —
        fused or standalone, in any order — replays exactly the same tuple
        order. That permutation-stability is what lets the training
        service promise bitwise-identical per-job models regardless of how
        jobs were grouped into scans. Pass the returned operator to
        :meth:`run_sgd` / :meth:`run_sgd_multi` via ``shuffle=``.

        The operator is also the anchor of the *shared-cursor* design:
        ``shared_scan(t).cursor(chunk_size)`` is the table's persistent
        :class:`~repro.rdbms.executor.ScanCursor`, a resumable position
        on the permutation's canonical chunk grid that the training
        service's scan flights drive as one continuous loop — every job
        rides it from its boarding position (0 for a flight's openers)
        through the wrap-around, exiting back at its boarding chunk.
        Because the permutation belongs to the table (never to a job), a
        ride replays exactly the chunk stream of a solo :meth:`run_sgd`
        with ``start_offset=`` its boarding position, which is what keeps
        every ride — mid-flight boarders included — bitwise-safe.

        Get-or-create is atomic: with per-table engine domains, workers
        reach here concurrently for *different* tables, and two racing
        callers on the same table must agree on one permutation. The memo
        is keyed to the table's *identity*, not its name: dropping and
        recreating a table retires the old operator (and its cursor), so
        a recreated table can never be scanned through a permutation —
        or worse, a heap — that belonged to its predecessor.
        """
        with self._shared_scans_lock:
            scan = self._shared_scans.get(table_name)
            table = self.catalog.get(table_name)
            if scan is None or scan.table is not table:
                if callable(random_state):
                    random_state = random_state()
                scan = ShuffleOnce(table, self.pool, random_state=as_generator(random_state))
                self._shared_scans[table_name] = scan
            return scan

    # -- core epoch loop ----------------------------------------------------------

    def run_sgd(
        self,
        table_name: str,
        uda: SGDUDA,
        epochs: int,
        *,
        convergence_tolerance: Optional[float] = None,
        loss_for_convergence: Optional[Loss] = None,
        random_state: RandomState = None,
        algorithm_label: str = "noiseless",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        shuffle: Optional[ShuffleOnce] = None,
        start_offset: int = 0,
    ) -> TrainingReport:
        """The front-end controller: shuffle once, one UDA query per epoch.

        The convergence test mirrors the paper's Python controller: after
        each epoch, evaluate the training loss and stop when its relative
        decrease falls below ``convergence_tolerance``.

        Each epoch streams the permutation's ``chunk_size``-row blocks
        through ``UDA.transition_batch``.

        ``shuffle`` reuses an existing operator (typically from
        :meth:`shared_scan`) instead of drawing a fresh permutation.

        ``start_offset`` rotates every epoch to begin at that position on
        the shuffle's canonical chunk grid and wrap around — the *solo
        reference* for a job that boarded a shared cursor mid-flight at
        that offset (see :class:`~repro.rdbms.executor.ScanCursor`): the
        boarded ride and this run execute identical operation sequences,
        so their models agree bitwise. Requires ``shuffle``: offsets are
        positions in an existing permutation.
        """
        check_positive_int(epochs, "epochs")
        table = self.catalog.get(table_name)
        if start_offset and shuffle is None:
            raise ValueError(
                "start_offset is a position in an existing permutation; "
                "pass the shared shuffle operator"
            )
        if shuffle is None:
            rng = as_generator(random_state)
            shuffle = ShuffleOnce(table, self.pool, random_state=rng)
        # Per-table counters: a concurrent scan on another table (per-table
        # engine domains) must never leak into this run's epoch accounting.
        pool_stats = self.pool.stats_for(table.heap)

        model: Optional[np.ndarray] = None
        reports: List[EpochReport] = []
        converged = False
        previous_loss: Optional[float] = None
        global_step_offset = 0
        total_noise_draws = 0

        for epoch in range(1, epochs + 1):
            hits_before = pool_stats.cache_hits
            misses_before = pool_stats.cache_misses
            updates_before = uda.updates_applied
            noise_before = getattr(uda, "noise_draws", 0)

            state = uda.initialize(
                model, dimension=table.dimension, global_step_offset=global_step_offset
            )
            for features, labels in shuffle.scan_chunks(chunk_size, start_offset):
                state = uda.transition_batch(state, features, labels)
            model = uda.terminate(state)
            global_step_offset += -(-table.num_tuples // uda.batch_size)

            noise_after = getattr(uda, "noise_draws", 0)
            total_noise_draws += noise_after - noise_before
            work = WorkCounters(
                tuples_processed=table.num_tuples,
                gradient_evaluations=table.num_tuples,
                batch_updates=uda.updates_applied - updates_before,
                noise_draws=noise_after - noise_before,
                shuffled_tuples=table.num_tuples if epoch == 1 else 0,
                page_hits=pool_stats.cache_hits - hits_before,
                page_misses=pool_stats.cache_misses - misses_before,
                dimension=table.dimension,
            )
            loss_value: Optional[float] = None
            if convergence_tolerance is not None or loss_for_convergence is not None:
                loss_value = self._training_loss(table, loss_for_convergence or uda.loss, model)
            reports.append(
                EpochReport(
                    epoch=epoch,
                    loss_value=loss_value,
                    runtime=self.cost_model.charge(work),
                )
            )
            if convergence_tolerance is not None and previous_loss is not None:
                scale = max(abs(previous_loss), 1e-12)
                if (previous_loss - loss_value) / scale < convergence_tolerance:
                    converged = True
                    break
            previous_loss = loss_value

        assert model is not None
        return TrainingReport(
            model=model,
            epochs=reports,
            converged_early=converged,
            algorithm=algorithm_label,
            noise_draws=total_noise_draws,
        )

    def run_sgd_multi(
        self,
        table_name: str,
        uda: MultiSGDUDA,
        epochs: int,
        *,
        random_state: RandomState = None,
        algorithm_label: str = "noiseless-multi",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        shuffle: Optional[ShuffleOnce] = None,
    ) -> MultiTrainingReport:
        """Train K models in one table scan per epoch — the fused controller.

        Same front-end discipline as :meth:`run_sgd` (shuffle once, one
        aggregate query per epoch), but the query is the fused
        :class:`~repro.rdbms.uda.MultiSGDUDA`: the scan streams each tuple
        block once and every model folds it, so the epoch's page requests
        and executor work are charged once while gradient/update work is
        charged per model. This is the Bismarck
        many-aggregates-one-scan pattern applied to model training.
        """
        check_positive_int(epochs, "epochs")
        table = self.catalog.get(table_name)
        if shuffle is None:
            rng = as_generator(random_state)
            shuffle = ShuffleOnce(table, self.pool, random_state=rng)
        pool_stats = self.pool.stats_for(table.heap)
        K = uda.num_models

        models: Optional[np.ndarray] = None
        reports: List[EpochReport] = []
        global_step_offset = 0

        for epoch in range(1, epochs + 1):
            hits_before = pool_stats.cache_hits
            misses_before = pool_stats.cache_misses
            updates_before = uda.updates_applied

            models = run_aggregate(
                shuffle,
                uda,
                chunk_size=chunk_size,
                models=models,
                dimension=table.dimension,
                global_step_offset=global_step_offset,
            )
            global_step_offset += -(-table.num_tuples // uda.batch_size)

            scan_updates = uda.updates_applied - updates_before
            work = WorkCounters(
                # The scan is shared: tuples stream (and pages are
                # requested) once per epoch regardless of K...
                tuples_processed=table.num_tuples,
                shuffled_tuples=table.num_tuples if epoch == 1 else 0,
                page_hits=pool_stats.cache_hits - hits_before,
                page_misses=pool_stats.cache_misses - misses_before,
                # ...while per-model arithmetic is honestly charged K-fold.
                gradient_evaluations=table.num_tuples * K,
                batch_updates=scan_updates * K,
                dimension=table.dimension,
            )
            reports.append(
                EpochReport(
                    epoch=epoch,
                    loss_value=None,
                    runtime=self.cost_model.charge(work),
                )
            )

        assert models is not None
        return MultiTrainingReport(
            models=models,
            epochs=reports,
            algorithm=algorithm_label,
        )

    # -- the three algorithm entry points -------------------------------------------

    def run_noiseless(
        self,
        table_name: str,
        loss: Loss,
        schedule: StepSizeSchedule,
        epochs: int,
        batch_size: int = 1,
        projection: Optional[Projection] = None,
        random_state: RandomState = None,
        convergence_tolerance: Optional[float] = None,
    ) -> TrainingReport:
        """Regular Bismarck (Figure 1 (A))."""
        uda = SGDUDA(loss, schedule, batch_size, projection)
        return self.run_sgd(
            table_name,
            uda,
            epochs,
            convergence_tolerance=convergence_tolerance,
            random_state=random_state,
            algorithm_label="noiseless",
        )

    def run_bolton_private(
        self,
        table_name: str,
        loss: Loss,
        epsilon: float,
        *,
        delta: float = 0.0,
        epochs: int = 1,
        batch_size: int = 1,
        eta: Optional[float] = None,
        radius: Optional[float] = None,
        random_state: RandomState = None,
        convergence_tolerance: Optional[float] = None,
    ) -> TrainingReport:
        """Our algorithms as integrated into Bismarck (Figure 1 (B)).

        Everything below the noise-adding block is the *unchanged* engine;
        the privacy addition really is the last few lines — the same "about
        10 lines of Python in the front-end controller" the paper reports.

        A regularized loss trains by Algorithm 2 in the L2 ball of
        ``radius`` (default ``R = 1/lambda``), an unregularized one by
        Algorithm 1 at the constant step ``eta`` (default ``1/sqrt(m)``).
        """
        table = self.catalog.get(table_name)
        m = table.num_tuples
        sgd_rng, noise_rng = spawn_generators(random_state, 2)
        privacy = PrivacyParameters(epsilon, delta)

        schedule, projection, properties = BoltOnCandidate(
            loss, eta=eta, radius=radius
        ).resolve(m)
        if convergence_tolerance is not None and not properties.is_strongly_convex:
            raise ValueError(
                "data-dependent early stopping is only private when the "
                "sensitivity does not depend on the pass count — i.e. the "
                "strongly convex case (Section 4.3); in the convex case "
                "fix the number of epochs instead"
            )

        uda = SGDUDA(loss, schedule, batch_size, projection)
        report = self.run_sgd(
            table_name,
            uda,
            epochs,
            convergence_tolerance=convergence_tolerance,
            random_state=sgd_rng,
            algorithm_label="bolton",
        )

        # ---- the bolt-on addition: this is the entire integration ----
        passes_run = len(report.epochs)
        sensitivity = sensitivity_for_schedule(
            properties, schedule, m, passes_run, batch_size
        )
        mechanism = mechanism_for(privacy)
        noise = mechanism.sample(table.dimension, sensitivity.value, privacy, noise_rng)
        report.model = report.model + noise
        report.noise_draws = 1
        # ---------------------------------------------------------------

        # Charge the single draw so runtime accounting is honest.
        final_work = WorkCounters(noise_draws=1, dimension=table.dimension)
        report.epochs[-1].runtime += self.cost_model.charge(final_work)
        return report

    def run_scs13(
        self,
        table_name: str,
        loss: Loss,
        epsilon: float,
        *,
        delta: float = 0.0,
        epochs: int = 1,
        batch_size: int = 1,
        radius: Optional[float] = None,
        random_state: RandomState = None,
    ) -> TrainingReport:
        """SCS13 inside the engine (Figure 1 (C)) — per-batch noise."""
        table = self.catalog.get(table_name)
        rule = scs13_rule(
            loss, epsilon, delta, passes=epochs, batch_size=batch_size, radius=radius
        )
        noise = rule.noise(table.num_tuples, table.dimension, batch_size)
        sgd_rng, noise_rng = spawn_generators(random_state, 2)
        uda = NoisySGDUDA(
            loss, rule.schedule, lambda step, d: noise.next(noise_rng), batch_size,
            rule.projection,
        )
        return self.run_sgd(
            table_name, uda, epochs, random_state=sgd_rng, algorithm_label="scs13",
        )

    def run_bst14(
        self,
        table_name: str,
        loss: Loss,
        epsilon: float,
        delta: float,
        *,
        epochs: int = 1,
        batch_size: int = 1,
        radius: float = 1.0,
        random_state: RandomState = None,
    ) -> TrainingReport:
        """BST14 (constant-epoch extension) inside the engine."""
        table = self.catalog.get(table_name)
        rule = bst14_rule(
            loss, epsilon, delta, table.num_tuples, table.dimension,
            passes=epochs, batch_size=batch_size, radius=radius,
        )
        noise = rule.noise(table.num_tuples, table.dimension, batch_size)
        sgd_rng, noise_rng = spawn_generators(random_state, 2)
        uda = NoisySGDUDA(
            loss, rule.schedule, lambda step, d: noise.next(noise_rng), batch_size,
            rule.projection,
        )
        return self.run_sgd(
            table_name, uda, epochs, random_state=sgd_rng, algorithm_label="bst14",
        )

    # -- internals -------------------------------------------------------------------

    def _training_loss(self, table: TableInfo, loss: Loss, model: np.ndarray) -> float:
        # Tuple-count-weighted mean of per-page batch_value calls: for any
        # Loss whose batch_value is a mean of per-example values plus a
        # state-only regularizer, this equals the full-table batch_value —
        # vectorized page-at-a-time and generic over scalar-only losses.
        total = 0.0
        count = 0
        for page in self.pool.scan(table.heap):
            total += page.tuple_count * loss.batch_value(model, page.features, page.labels)
            count += page.tuple_count
        return total / count


def _source_lines(obj) -> List[str]:
    """``obj``'s source lines, stripped, without blank lines and docstrings."""
    source = textwrap.dedent(inspect.getsource(obj))
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            continue
        if ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return [
        line.strip()
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in docstrings and line.strip()
    ]


def integration_report() -> dict:
    """Quantify the Section 4.2 integration-effort comparison on our code.

    Counts the code lines of the bolt-on addition inside
    :meth:`BismarckSession.run_bolton_private` (the block between the
    marker comments) versus the white-box :class:`NoisySGDUDA` subclass
    plus :meth:`~BismarckSession.run_scs13` and
    :meth:`~BismarckSession.run_bst14` — the stand-ins for "about 10 LOC
    of Python" versus "dozens of LOC in C inside the transition
    function". Comments, blank lines, docstrings and the rules (in
    :mod:`repro.baselines` and :mod:`repro.core.bolton`) do not count.
    """
    in_block = False
    bolton_lines = 0
    for line in _source_lines(BismarckSession.run_bolton_private):
        if line.startswith("# ---- the bolt-on addition"):
            in_block = True
        elif line.startswith("# ----------------"):
            in_block = False
        elif in_block and not line.startswith("#"):
            bolton_lines += 1
    whitebox_lines = sum(
        not line.startswith("#")
        for obj in (NoisySGDUDA, BismarckSession.run_scs13, BismarckSession.run_bst14)
        for line in _source_lines(obj)
    )
    return {
        "bolton_integration_loc": bolton_lines,
        "whitebox_integration_loc": whitebox_lines,
        "bolton_touches_engine_internals": False,
        "whitebox_touches_engine_internals": True,
        "paper_claim": "ours ~10 LOC of front-end Python; SCS13/BST14 dozens "
        "of LOC of C inside the UDA transition function",
    }
