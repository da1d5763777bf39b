#!/usr/bin/env python
"""In-RDBMS private analytics: the Bismarck integration (Figure 1).

Loads a table into the miniature analytics engine, trains with all four
integration styles (regular Bismarck, bolt-on, SCS13, BST14), and prints
the runtime/accuracy comparison plus the integration-effort report — the
Section 4.2/4.4 story in one script.

Run:  python examples/in_rdbms_analytics.py
"""

from __future__ import annotations

import numpy as np

from repro import BoltOnCandidate, LogisticLoss
from repro.data import covertype_like
from repro.rdbms import BismarckSession, integration_report


def accuracy(model: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.where(features @ model >= 0, 1.0, -1.0) == labels))


def main() -> None:
    train, test = covertype_like(scale=0.02, seed=0)
    print(f"dataset: {train.name}  m={train.size}  d={train.dimension}\n")

    session = BismarckSession(buffer_pool_pages=1 << 18)
    session.load_table("covertype", train.features, train.labels)

    loss = LogisticLoss(regularization=1e-3)
    epsilon, delta = 0.2, 1.0 / train.size**2
    epochs, batch = 5, 10

    # Algorithm 2's step size and hypothesis ball (R = 1/lambda), which
    # the noiseless run and the white-box baselines share with ours.
    schedule, projection, _ = BoltOnCandidate(loss).resolve(train.size)
    radius = projection.radius

    print(f"{'algorithm':<12} {'sim. seconds':>12} {'noise draws':>12} {'accuracy':>9}")
    noiseless = session.run_noiseless(
        "covertype", loss, schedule, epochs, batch, projection, random_state=0,
    )
    print(f"{'noiseless':<12} {noiseless.simulated_seconds:>12.4f} "
          f"{noiseless.noise_draws:>12} "
          f"{accuracy(noiseless.model, test.features, test.labels):>9.4f}")

    ours = session.run_bolton_private(
        "covertype", loss, epsilon, delta=delta, epochs=epochs,
        batch_size=batch, random_state=0,
    )
    print(f"{'ours':<12} {ours.simulated_seconds:>12.4f} {ours.noise_draws:>12} "
          f"{accuracy(ours.model, test.features, test.labels):>9.4f}")

    scs13 = session.run_scs13(
        "covertype", loss, epsilon, delta=delta, epochs=epochs,
        batch_size=batch, radius=radius, random_state=0,
    )
    print(f"{'SCS13':<12} {scs13.simulated_seconds:>12.4f} {scs13.noise_draws:>12} "
          f"{accuracy(scs13.model, test.features, test.labels):>9.4f}")

    bst14 = session.run_bst14(
        "covertype", loss, epsilon, delta, epochs=epochs, batch_size=batch,
        radius=radius, random_state=0,
    )
    print(f"{'BST14':<12} {bst14.simulated_seconds:>12.4f} {bst14.noise_draws:>12} "
          f"{accuracy(bst14.model, test.features, test.labels):>9.4f}")

    print("\nintegration effort (Section 4.2):")
    for key, value in integration_report().items():
        print(f"  {key}: {value}")


if __name__ == "__main__":
    main()
