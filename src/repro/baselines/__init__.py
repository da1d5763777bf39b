"""The state-of-the-art white-box private SGD baselines of Section 4.

* :func:`scs13_train` — Song, Chaudhuri & Sarwate (2013), per-update noise,
  extended to multiple passes as in the paper.
* :func:`bst14_train` — Bassily, Smith & Thakurta (2014) in the paper's
  constant-epoch extension (Algorithms 4 and 5), (ε,δ)-DP only.

Each module owns its algorithm's parameter rule (``scs13_rule``,
``bst14_rule``), which the in-RDBMS trainers build on too.
"""

from repro.baselines.bst14 import (
    bst14_noise_sigma,
    bst14_train,
    per_iteration_sensitivity,
    solve_composition_epsilon,
)
from repro.baselines.common import BaselineResult
from repro.baselines.scs13 import scs13_gaussian_sigma, scs13_noise_scale, scs13_train

__all__ = [
    "BaselineResult",
    "scs13_train",
    "scs13_noise_scale",
    "scs13_gaussian_sigma",
    "bst14_train",
    "bst14_noise_sigma",
    "per_iteration_sensitivity",
    "solve_composition_epsilon",
]
