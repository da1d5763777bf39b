#!/usr/bin/env python
"""Private hyper-parameter tuning with Algorithm 3 — on the fused engine.

Tunes (passes, lambda) over the paper's grid with the exponential-
mechanism tuner, then contrasts the private selection with the selection a
public validation set would have made.

Both tuning variants are many-model workloads, so they run on the fused
multi-model engine: the factory below is *structural*
(``BoltOnTrainerFactory`` exposes each grid point as a ``BoltOnCandidate``),
which lets Algorithm 3 train all partitions' models in stacked fused runs
and the public grid search train every candidate in ONE scan of the public
split. Wrap the factory in an opaque callable
(``lambda theta: trainer_factory(theta)``) to replay the sequential
reference path — the same models, bit for bit.

Run:  python examples/private_tuning.py
"""

from __future__ import annotations

from repro import BoltOnTrainerFactory, LogisticLoss
from repro.data import protein_like
from repro.tuning import paper_grid, privately_tuned_sgd, tune_on_public_data

#: Grid points carry "passes" and "regularization"; the batch size is the
#: paper's fixed b = 50. The factory is both a classic TrainerFactory
#: (callable -> sequential trainer) and a fused-candidate source.
trainer_factory = BoltOnTrainerFactory(
    lambda theta: LogisticLoss(regularization=theta["regularization"]),
    batch_size=50,
)


def main() -> None:
    train, test = protein_like(scale=0.1, seed=0)
    public_train, public_val = protein_like(scale=0.05, seed=99).train.split(
        test_fraction=0.3, random_state=1
    )
    epsilon, delta = 0.2, 1.0 / train.size**2
    grid = paper_grid()  # k in {5, 10}, lambda in {1e-4, 1e-3, 1e-2}

    print(f"grid: {grid.candidates()}\n")

    outcome = privately_tuned_sgd(
        train.features, train.labels, trainer_factory, grid, epsilon,
        delta=delta, random_state=0,  # fused: partitions train stacked
    )
    print("== private tuning (Algorithm 3, fused) ==")
    print(f"chosen parameters : {outcome.chosen_parameters}")
    print(f"error counts      : {outcome.unreleased_error_counts} (diagnostic)")
    print(f"selection probs   : {[round(float(p), 3) for p in outcome.unreleased_probabilities]}")
    print(f"test accuracy     : {outcome.accuracy(test.features, test.labels):.4f}\n")

    public = tune_on_public_data(
        public_train.features, public_train.labels,
        public_val.features, public_val.labels,
        trainer_factory, grid, epsilon, delta=delta, random_state=0,
        # fused: the whole grid trains in one scan of the
        # public split (6 candidates, 1 data pass per epoch-slot).
    )
    print("== tuning on public data (fused grid, one scan) ==")
    print(f"best parameters   : {public.best_parameters}")
    final = trainer_factory(public.best_parameters)(
        train.features, train.labels, epsilon=epsilon, delta=delta,
        random_state=0,
    )
    print(f"test accuracy     : {final.accuracy(test.features, test.labels):.4f}")


if __name__ == "__main__":
    main()
