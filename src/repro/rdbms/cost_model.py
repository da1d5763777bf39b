"""A calibrated cost model turning execution counters into seconds.

The paper's runtime results (Figures 2 and 5) are wall-clock measurements
of C UDAs inside PostgreSQL on a 48-core Xeon; our substrate is Python, so
absolute times are meaningless. What the figures actually demonstrate is
*relative* behaviour, all of which is a function of operation counts:

* noiseless and bolt-on runs do the same per-tuple work; the bolt-on run
  adds exactly one noise draw at the very end (≈ free);
* SCS13/BST14 add one noise draw per mini-batch — at b=1 that is one draw
  per tuple ("up to 6X slower"), and the overhead shrinks as b grows until
  it "practically disappears" at b=500;
* runtimes scale linearly in the number of examples;
* on larger-than-memory data, per-page I/O dominates and the algorithms
  converge to the same I/O-bound runtime (Figure 2(b)).

Every page miss is charged at the *sequential* rate (``io_miss_per_page``).
The engine earns that rate the way Bismarck does: ``ShuffleOnce`` scans a
table with more pages than the buffer pool holds from a copy stored in
permutation order, so each page misses once per epoch, in storage order —
exactly the ``analytic_counters`` model. A table that fits the pool is
read in place and, warm, misses nothing.

The constants below are calibrated to the paper's hardware narrative:
gradient work a few hundred ns/tuple/50-dims, a noise draw from a
sophisticated distribution several microseconds (the paper attributes the
overhead to "expensive random sampling code"), sequential page reads at
~200 MB/s effective disk bandwidth. The *tests* assert only ordering and
ratio properties, never absolute values, so recalibration cannot break
correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostConstants:
    """Per-operation costs in seconds. See module docstring for rationale."""

    #: Per-tuple gradient compute+accumulate, per feature dimension.
    cpu_gradient_per_dim: float = 4e-9
    #: Applying one accumulated mini-batch update, per dimension.
    cpu_update_per_dim: float = 2e-9
    #: One draw from a "sophisticated distribution" (gamma / multivariate
    #: normal), per dimension — the white-box algorithms pay this per batch.
    cpu_noise_per_dim: float = 10e-9
    #: Fixed overhead per noise draw (RNG state, allocation, C call).
    cpu_noise_fixed: float = 4e-7
    #: Per-tuple executor overhead (advance scan, call transition).
    cpu_per_tuple: float = 25e-9
    #: Shuffle comparison cost per tuple (the ORDER BY RANDOM() sort).
    cpu_shuffle_per_tuple: float = 50e-9
    #: Buffer-pool hit (memory) per page.
    io_hit_per_page: float = 1e-7
    #: Miss serviced from disk, sequential pattern (8 KiB / ~200 MB/s).
    io_miss_per_page: float = 4e-5


@dataclass
class RuntimeBreakdown:
    """Simulated seconds split by resource; ``total`` is their sum."""

    gradient_seconds: float = 0.0
    update_seconds: float = 0.0
    noise_seconds: float = 0.0
    executor_seconds: float = 0.0
    shuffle_seconds: float = 0.0
    io_seconds: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.gradient_seconds
            + self.update_seconds
            + self.noise_seconds
            + self.executor_seconds
            + self.shuffle_seconds
            + self.io_seconds
        )

    @property
    def cpu_seconds(self) -> float:
        return self.total - self.io_seconds

    def __add__(self, other: "RuntimeBreakdown") -> "RuntimeBreakdown":
        return RuntimeBreakdown(
            gradient_seconds=self.gradient_seconds + other.gradient_seconds,
            update_seconds=self.update_seconds + other.update_seconds,
            noise_seconds=self.noise_seconds + other.noise_seconds,
            executor_seconds=self.executor_seconds + other.executor_seconds,
            shuffle_seconds=self.shuffle_seconds + other.shuffle_seconds,
            io_seconds=self.io_seconds + other.io_seconds,
        )


@dataclass
class WorkCounters:
    """What an execution did — the cost model's input.

    Populated by the Bismarck controller from operator/UDA/buffer-pool
    counters, or synthesized analytically for the large-scale sweeps
    (:func:`repro.rdbms.synthesizer.analytic_counters`).
    """

    tuples_processed: int = 0
    gradient_evaluations: int = 0
    batch_updates: int = 0
    noise_draws: int = 0
    shuffled_tuples: int = 0
    page_hits: int = 0
    page_misses: int = 0
    dimension: int = 1


@dataclass
class CostModel:
    """Applies :class:`CostConstants` to :class:`WorkCounters`."""

    constants: CostConstants = field(default_factory=CostConstants)

    def charge(self, work: WorkCounters) -> RuntimeBreakdown:
        c = self.constants
        d = max(1, work.dimension)
        return RuntimeBreakdown(
            gradient_seconds=work.gradient_evaluations * c.cpu_gradient_per_dim * d,
            update_seconds=work.batch_updates * c.cpu_update_per_dim * d,
            noise_seconds=work.noise_draws * (c.cpu_noise_fixed + c.cpu_noise_per_dim * d),
            executor_seconds=work.tuples_processed * c.cpu_per_tuple,
            shuffle_seconds=work.shuffled_tuples * c.cpu_shuffle_per_tuple,
            io_seconds=(
                work.page_hits * c.io_hit_per_page
                + work.page_misses * c.io_miss_per_page
            ),
        )
