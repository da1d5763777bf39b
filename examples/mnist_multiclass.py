#!/usr/bin/env python
"""Multiclass private learning: the MNIST pipeline of Section 4.3.

Reproduces the paper's MNIST setup on the synthetic stand-in:

1. generate 10-class, 784-dimensional data;
2. Gaussian-random-project to 50 dimensions (privacy noise scales with d);
3. train ten one-vs-rest private logistic models, splitting the ε budget
   evenly across them (basic composition);
4. report multiclass test accuracy against the noiseless reference.

The ten binary models all read the same projected feature rows, so the
trainer is passed as a structural ``BoltOnCandidate`` and one-vs-rest
runs on the **fused path**: one data scan trains all ten classes, with
the per-class ±1 relabeling expressed as a (10, m) label matrix and each
class keeping its own ε/10 budget share and noise stream (an opaque
trainer callable replays the classic per-class loop).

Run:  python examples/mnist_multiclass.py
"""

from __future__ import annotations

import numpy as np

from repro import BoltOnCandidate, LogisticLoss
from repro.data import mnist_like, project_dataset
from repro.multiclass import train_one_vs_rest


def main() -> None:
    pair = mnist_like(scale=0.1, seed=0)
    print(f"raw data: m={pair.train.size}, d={pair.train.dimension}, 10 classes")

    # Random projection 784 -> 50 (Section 2 / Table 3 footnote). The same
    # matrix must transform the test set.
    train, projection = project_dataset(pair.train, 50, random_state=0)
    test, _ = project_dataset(pair.test, 50, projection=projection)
    print(f"after projection: d={train.dimension}")

    epsilon = 4.0  # the top of the paper's MNIST grid

    # Structural trainer description: Algorithm 1 (convex logistic loss),
    # k = 10 passes, b = 50 — fused across all ten classes in one scan.
    trainer = BoltOnCandidate(LogisticLoss(), passes=10, batch_size=50)

    result = train_one_vs_rest(
        train.features, train.labels, trainer, epsilon=epsilon, random_state=0,
    )
    print(f"per-model budget: {result.per_model_privacy} "
          f"(total {result.privacy}, split across {len(result.models)} models)")

    private_accuracy = result.accuracy(test.features, test.labels)
    print(f"private one-vs-rest accuracy: {private_accuracy:.4f}")

    # The noiseless reference (what Figure 3's top line shows).
    noiseless_models = [
        sub.unreleased_noiseless_model for sub in result.sub_results
    ]
    scores = np.column_stack([test.features @ w for w in noiseless_models])
    noiseless_accuracy = float(
        np.mean(np.array(result.classes)[np.argmax(scores, axis=1)] == test.labels)
    )
    print(f"noiseless reference accuracy: {noiseless_accuracy:.4f}")
    print(f"chance level: {1 / 10:.2f}")


if __name__ == "__main__":
    main()
